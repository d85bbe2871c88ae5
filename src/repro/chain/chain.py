"""The blockchain: block tree, fork choice, reorgs, and state queries.

The chain keeps *every* valid block it has seen in a tree and selects the
head by cumulative proof-of-work ("longest chain" generalized to heaviest
chain, first-seen winning ties).  This is the fork-resolution mechanism
AC3WN leans on: when a fork puts ``SCw`` in ``RDauth`` on one branch and
``RFauth`` on another, waiting until one branch leads by depth ``d``
converges the contract to a single state (Section 4.2, Lemma 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from ..crypto.keys import Address
from ..crypto.merkle import MerkleProof, MerkleTree, merkle_root
from ..errors import InvalidBlockError, UnknownBlockError, ValidationError
from .block import (
    Block,
    BlockHeader,
    encode_time,
    receipt_leaf,
    receipts_merkle_tree,
)
from .contracts import Receipt, SmartContract
from .messages import ChainMessage, transfer_ids
from .params import ChainParams
from .pow import check_pow, mine_header, work_for_bits
from .state import ChainState
from .transaction import OutPoint, TxOutput, coinbase_encoding, coinbase_tail

GENESIS_PREV = b"\x00" * 32


@dataclass(frozen=True, slots=True)
class MessageLocation:
    """Where a message landed: block hash, height, and index within it."""

    block_hash: bytes
    height: int
    index: int


@dataclass(frozen=True, slots=True, eq=False)
class Genesis:
    """A genesis block's content, everything but its header.

    It depends on the allocations alone, so chains funded alike share
    one.  Each allocation is a coin in ``state``: the output of the
    coinbase that would mint it, never kept as a message, a receipt or an
    index entry, since no protocol step finds, proves or reads a genesis
    coin.  The coinbases live on only in the two roots.  ``state`` is
    never written: each chain installs a copy-on-write clone of it.
    """

    state: ChainState
    merkle_root: bytes
    receipts_root: bytes


def build_genesis(allocations: Iterable[tuple[Address, int]]) -> Genesis:
    """The genesis minting ``allocations``, ``(address, value)`` pairs, in
    order: coin ``nonce`` is output 0 of the coinbase paying that pair
    under ``nonce``, whose template bytes are hashed into its txid and,
    for the roots, its message id.  A run of equal allocations (equal
    value *and* type: ``True`` encodes unlike ``1``) holds one
    :class:`TxOutput` and encodes it once: each coin adds only its
    nonce.  Both roots are root-only Merkle passes."""
    state = ChainState()
    ids = []
    last = None
    for nonce, (address, value) in enumerate(allocations):
        if (address, value, type(value)) != last:
            last, output = (address, value, type(value)), TxOutput(address, value)
            tail = coinbase_tail(output)
        txid, message_id = transfer_ids(coinbase_encoding(output, nonce, tail))
        state.utxos.add(OutPoint(txid, 0), output)
        ids.append(message_id)
    return Genesis(
        state,
        merkle_root(ids),
        merkle_root([receipt_leaf(message_id, "ok") for message_id in ids]),
    )


class Blockchain:
    """One permissionless blockchain with fork handling and contract state.

    A message costs one index entry, its block's hash, and a receipt
    (shared when fee-free).  Of its genesis a chain owns only the header
    (its ``chain_id``) and a state clone; the coins, roots and state
    buckets are the shared :class:`Genesis`'s, and the genesis block
    carries no messages.

    Args:
        params: static chain configuration.
        genesis: a :class:`Genesis` (shared with the other chains funded
            alike), or the ``(address, value)`` allocations to build one.
    """

    def __init__(
        self,
        params: ChainParams,
        genesis: Genesis | Iterable[tuple[Address, int]] = (),
    ) -> None:
        self.params = params
        self._blocks: dict[bytes, Block] = {}
        self._children: dict[bytes, list[bytes]] = {}
        self._work: dict[bytes, int] = {}
        self._states: dict[bytes, ChainState] = {}
        self._message_index: dict[bytes, bytes | tuple[bytes, ...]] = {}
        #: height -> block hash along the current main chain, maintained
        #: incrementally on connect/reorg so main-chain membership,
        #: block_at_height, and message_depth are all O(1).
        self._height_index: dict[int, bytes] = {}
        #: block hash -> ((message_id, status) list in block order, receipts
        #: Merkle tree).  Filled at connect time, where the tree is built
        #: anyway to check the header commitment; evidence construction
        #: reuses it instead of rebuilding a tree per proof.
        self._receipt_data: dict[bytes, tuple[list[tuple[bytes, str]], MerkleTree]] = {}
        #: one-entry memo for header_chain(): evidence built for several
        #: edges against the same head repeats the identical query.
        self._header_chain_memo: tuple | None = None
        #: one-entry memo for _receipts(): (statuses, their tree).
        self._receipts_memo: tuple | None = None
        self._head_hash: bytes = b""
        self.orphans_rejected = 0
        self._block_listeners: list[Callable[[Block], None]] = []
        self._reorg_listeners: list[Callable[[int, int], None]] = []
        self.reorgs = 0

        if not isinstance(genesis, Genesis):
            genesis = build_genesis(genesis)
        header = BlockHeader(
            chain_id=params.chain_id,
            height=0,
            prev_hash=GENESIS_PREV,
            merkle_root=genesis.merkle_root,
            receipts_root=genesis.receipts_root,
            time_ticks=0,
            difficulty_bits=0,  # genesis carries no work requirement
            nonce=0,
            miner=Address(b"\x00" * 20),
        )
        self._install(Block(header=header, messages=()), genesis.state.clone())

    def _receipts(self, statuses: list[tuple[bytes, str]]) -> tuple[list, MerkleTree]:
        """``statuses`` (a private copy) and the receipts tree over them.
        A block is executed once to be built and once more to be
        connected; when the second execution yields the same statuses,
        the first pair is the answer."""
        memo = self._receipts_memo
        if memo is None or memo[0] != statuses:
            memo = self._receipts_memo = (list(statuses), receipts_merkle_tree(statuses))
        return memo

    # -- core accessors -----------------------------------------------------

    @property
    def head(self) -> Block:
        return self._blocks[self._head_hash]

    @property
    def head_hash(self) -> bytes:
        return self._head_hash

    @property
    def height(self) -> int:
        return self.head.header.height

    def block(self, block_hash: bytes) -> Block:
        try:
            return self._blocks[block_hash]
        except KeyError:
            raise UnknownBlockError(f"unknown block {block_hash.hex()[:12]}…")

    def has_block(self, block_hash: bytes) -> bool:
        return block_hash in self._blocks

    def cumulative_work(self, block_hash: bytes) -> int:
        if block_hash not in self._work:
            raise UnknownBlockError(f"unknown block {block_hash.hex()[:12]}…")
        return self._work[block_hash]

    # -- validation + connection ---------------------------------------------

    def add_block(self, block: Block) -> bool:
        """Validate and connect ``block``; returns True if it became head.

        Invalid blocks raise :class:`~repro.errors.InvalidBlockError`.
        Blocks whose parent is unknown are rejected (no orphan pool; the
        simulator delivers blocks in causal order per miner).
        """
        self._validate_structure(block)
        became_head = self._connect(block)
        for listener in list(self._block_listeners):
            listener(block)
        return became_head

    # -- block listeners -----------------------------------------------------

    def add_block_listener(self, listener: Callable[[Block], None]) -> None:
        """Subscribe ``listener`` to every successfully connected block.

        Listeners fire synchronously after the block (and its state) are
        installed, in subscription order — the on-block-mined hook that
        event-driven protocol drivers advance on.
        """
        self._block_listeners.append(listener)

    def remove_block_listener(self, listener: Callable[[Block], None]) -> None:
        """Unsubscribe ``listener``; missing listeners are a no-op."""
        try:
            self._block_listeners.remove(listener)
        except ValueError:
            pass

    # -- reorg listeners -----------------------------------------------------

    def add_reorg_listener(self, listener: Callable[[int, int], None]) -> None:
        """Subscribe ``listener(abandoned_depth, adopted_depth)`` to reorgs.

        Fired on every head switch that *abandons* part of the previous
        main chain (a plain head extension is not a reorg): the
        arguments are how many blocks of the old branch fell off the
        main chain and how many blocks of the new branch replaced them,
        both measured from the fork point.  Listeners fire after the
        height index has been repointed (the chain already answers
        queries from the new branch) and before the block listeners of
        the head-switching block — so drivers and metrics observe
        reorgs directly instead of re-deriving them from height queries.
        """
        self._reorg_listeners.append(listener)

    def _validate_structure(self, block: Block) -> None:
        header = block.header
        if header.chain_id != self.params.chain_id:
            raise InvalidBlockError(
                f"block for chain {header.chain_id!r} offered to {self.params.chain_id!r}"
            )
        if header.prev_hash not in self._blocks:
            self.orphans_rejected += 1
            raise InvalidBlockError("unknown parent block")
        parent = self._blocks[header.prev_hash]
        if header.height != parent.header.height + 1:
            raise InvalidBlockError(
                f"height {header.height} does not extend parent height "
                f"{parent.header.height}"
            )
        if header.time_ticks < parent.header.time_ticks:
            raise InvalidBlockError("block timestamp precedes its parent")
        if header.merkle_root != block.compute_merkle_root():
            raise InvalidBlockError("merkle root does not match messages")
        if not check_pow(header):
            raise InvalidBlockError("proof of work below target")

    def _connect(self, block: Block) -> bool:
        block_hash = block.block_id()
        if block_hash in self._blocks:
            return False  # duplicate
        # Apply messages on a clone; rejection leaves the chain untouched.
        state = self.state_at(block.header.prev_hash).clone()
        try:
            receipts = state.apply_block(block, self.params)
        except ValidationError as exc:
            raise InvalidBlockError(f"block payload invalid: {exc}") from exc
        statuses = [(m.message_id(), r.status) for m, r in zip(block.messages, receipts)]
        receipt_data = self._receipts(statuses)
        if block.header.receipts_root != receipt_data[1].root():
            raise InvalidBlockError("receipts root does not match execution")
        self._receipt_data[block_hash] = receipt_data
        return self._install(block, state)

    def _install(self, block: Block, state: ChainState) -> bool:
        """Record ``block``, the ``state`` it leaves, and whether it is head."""
        block_hash = block.block_id()
        parent_hash = block.header.prev_hash
        self._blocks[block_hash] = block
        self._children.setdefault(parent_hash, []).append(block_hash)
        self._work[block_hash] = self._work.get(parent_hash, 0) + work_for_bits(
            block.header.difficulty_bits
        )
        self._states[block_hash] = state
        for message in block.messages:
            seen = self._message_index.setdefault(message.message_id(), block_hash)
            if seen != block_hash:  # already included on another branch
                seen = seen if type(seen) is tuple else (seen,)
                self._message_index[message.message_id()] = seen + (block_hash,)

        if self._head_hash and self._work[block_hash] <= self._work[self._head_hash]:
            return False
        old_head = self._head_hash
        fork_height = self._reindex_main_chain(block_hash)
        self._head_hash = block_hash
        if old_head and parent_hash != old_head:
            # A head switch that does not extend the old head is a reorg.
            self.reorgs += 1
            abandoned = self._blocks[old_head].header.height - fork_height
            for listener in list(self._reorg_listeners):
                listener(abandoned, block.header.height - fork_height)
        return True

    def _reindex_main_chain(self, new_head: bytes) -> int:
        """Repoint the height index at the branch ending in ``new_head``;
        returns the height of the fork point.

        Walks back from the new head only until the index already agrees
        (the fork point), so extending the head is O(1) and a reorg costs
        the depth of the fork — never a full-chain walk.
        """
        new_height = self._blocks[new_head].header.height
        for height in range(new_height + 1, len(self._height_index)):
            del self._height_index[height]
        cursor = new_head
        while True:
            header = self._blocks[cursor].header
            if self._height_index.get(header.height) == cursor:
                return header.height
            self._height_index[header.height] = cursor
            if header.height == 0:
                return 0
            cursor = header.prev_hash

    # -- state queries --------------------------------------------------------

    def state_at(self, block_hash: bytes | None = None) -> ChainState:
        """The ledger state at ``block_hash`` (default: current head)."""
        block_hash = block_hash or self._head_hash
        if block_hash not in self._states:
            raise UnknownBlockError(f"no state for block {block_hash.hex()[:12]}…")
        return self._states[block_hash]

    def contract(self, contract_id: bytes, block_hash: bytes | None = None) -> SmartContract:
        """The contract instance as of ``block_hash`` (default head)."""
        return self.state_at(block_hash).contract(contract_id)

    def has_contract(self, contract_id: bytes) -> bool:
        return self.state_at().has_contract(contract_id)

    def balance_of(self, owner: Address) -> int:
        return self.state_at().balance_of(owner)

    def receipt(self, message_id: bytes, block_hash: bytes | None = None) -> Receipt | None:
        """The receipt of ``message_id`` as of ``block_hash`` (default head)."""
        return self.state_at(block_hash).receipts.get(message_id)

    # -- main-chain geometry ---------------------------------------------------

    def main_chain(self) -> Iterator[Block]:
        """Blocks from genesis to head along the winning branch."""
        return iter(
            self._blocks[self._height_index[height]]
            for height in range(self.height + 1)
        )

    def block_at_height(self, height: int) -> Block:
        """The main-chain block at ``height`` (O(1) via the height index)."""
        if not 0 <= height <= self.height:
            raise UnknownBlockError(f"no main-chain block at height {height}")
        return self._blocks[self._height_index[height]]

    def is_in_main_chain(self, block_hash: bytes) -> bool:
        block = self.block(block_hash)
        return self._height_index.get(block.header.height) == block_hash

    def depth_of(self, block_hash: bytes) -> int:
        """Confirmations of a block: 1 when it is the head, 0 off-chain.

        A block at depth >= ``params.confirmation_depth`` is *stable* in
        the sense of Section 4.3.
        """
        if not self.is_in_main_chain(block_hash):
            return 0
        return self.height - self.block(block_hash).header.height + 1

    def stable_header(self) -> BlockHeader:
        """The newest stable main-chain header (depth == confirmation_depth)."""
        height = max(0, self.height - self.params.confirmation_depth + 1)
        return self.block_at_height(height).header

    def header_chain(self, start_height: int, end_height: int | None = None) -> list[BlockHeader]:
        """Main-chain headers from ``start_height`` to ``end_height`` inclusive."""
        end_height = self.height if end_height is None else end_height
        key = (self._head_hash, start_height, end_height)
        memo = self._header_chain_memo
        if memo is not None and memo[0] == key:
            return list(memo[1])
        headers = [
            self.block_at_height(h).header for h in range(start_height, end_height + 1)
        ]
        self._header_chain_memo = (key, headers)
        return list(headers)

    def receipts_data(self, block_hash: bytes) -> tuple[list[tuple[bytes, str]], MerkleTree]:
        """The ``(message_id, status)`` list and receipts Merkle tree of a
        mined block, in block order, as cached at connect time.  Genesis
        keeps none: its root commits to coinbases no chain holds."""
        data = self._receipt_data.get(block_hash)
        if data is None:
            raise UnknownBlockError(f"no receipts kept for block {block_hash.hex()[:12]}…")
        return data

    # -- message queries --------------------------------------------------------

    def find_message(self, message_id: bytes) -> MessageLocation | None:
        """Main-chain location of a message (built when asked), or None."""
        hashes = self._message_index.get(message_id, ())
        for block_hash in (hashes,) if type(hashes) is bytes else hashes:
            if self.is_in_main_chain(block_hash):
                block = self._blocks[block_hash]
                return MessageLocation(block_hash, block.header.height, block.position(message_id))
        return None

    def message_depth(self, message_id: bytes) -> int:
        """Confirmations of the block containing the message (0 if absent)."""
        location = self.find_message(message_id)
        if location is None:
            return 0
        return self.depth_of(location.block_hash)

    def inclusion_proof(self, message_id: bytes) -> tuple[MerkleProof, BlockHeader] | None:
        """Merkle proof that a message is included in a main-chain block."""
        location = self.find_message(message_id)
        if location is None:
            return None
        block = self.block(location.block_hash)
        proof = block.merkle_tree().proof(location.index)
        return proof, block.header

    # -- block building ------------------------------------------------------------

    def make_block(
        self,
        messages: list[ChainMessage],
        miner: Address,
        timestamp: float,
        parent_hash: bytes | None = None,
        parent_header: "BlockHeader | None" = None,
        parent_state: ChainState | None = None,
        statuses: list[tuple[bytes, str]] | None = None,
    ) -> Block:
        """Assemble and mine a block on ``parent_hash`` (default: head).

        The block is *not* connected; call :meth:`add_block`.  Building on
        a non-head parent is how fork/attack experiments create branches.
        ``parent_header``/``parent_state`` let a caller extend a parent
        the chain has not connected yet (withheld private branches).
        ``statuses`` lets a caller that already trial-applied ``messages``
        at this block's quantized time (the miner's template pass) supply
        the ``(message_id, status)`` receipts commitment directly instead
        of paying a second trial application here.
        """
        parent_hash = parent_hash or self._head_hash
        if parent_header is not None:
            parent = Block(header=parent_header, messages=())
        else:
            parent = self.block(parent_hash)
        time_ticks = max(encode_time(timestamp), parent.header.time_ticks)
        height = parent.header.height + 1
        block_time = time_ticks / 1000
        if statuses is None:
            # Trial-apply the messages to compute the receipts commitment.
            base_state = parent_state if parent_state is not None else self.state_at(parent_hash)
            trial = base_state.clone()
            statuses = []
            for message in messages:
                receipt = trial.apply_message(
                    message,
                    self.params,
                    block_height=height,
                    block_time=block_time,
                )
                statuses.append((message.message_id(), receipt.status))
        tree = MerkleTree([message.message_id() for message in messages])
        template = BlockHeader(
            chain_id=self.params.chain_id,
            height=height,
            prev_hash=parent_hash,
            merkle_root=tree.root(),
            receipts_root=self._receipts(statuses)[1].root(),
            time_ticks=time_ticks,
            difficulty_bits=self.params.difficulty_bits,
            nonce=0,
            miner=miner,
        )
        return Block.with_tree(mine_header(template), tuple(messages), tree)
