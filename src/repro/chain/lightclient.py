"""Light clients: header-only chain tracking with SPV inclusion proofs.

Section 4.3 describes light nodes as nodes that "download only the block
headers of a blockchain, verify the proof of work of these block headers,
and download only the blockchain branches that are associated with the
transactions of interest".  :class:`LightClient` implements exactly that:
it accepts headers (verifying linkage and PoW), tracks the best header
chain, and verifies Merkle inclusion proofs of messages against stored
headers at a required depth.  Heights come from untrusted evidence: every
query bounds them to ``[0, height]`` (a Python list would read ``-1`` as
the tip).
"""

from __future__ import annotations

from ..crypto.merkle import MerkleProof
from ..errors import EvidenceError, InvalidBlockError
from .block import BlockHeader
from .chain import Blockchain
from .params import ChainParams
from .pow import check_pow


def verify_header_linkage(headers: list[BlockHeader], expect_pow: bool = True) -> None:
    """Check that ``headers`` form a contiguous, PoW-valid chain segment.

    Raises :class:`~repro.errors.EvidenceError` on the first violation.
    This is the core check shared by light clients and the Section 4.3
    relay-contract validator.
    """
    for i, header in enumerate(headers):
        if expect_pow and header.height > 0 and not check_pow(header):
            raise EvidenceError(f"header at height {header.height} fails proof of work")
        if i == 0:
            continue
        prev = headers[i - 1]
        if header.prev_hash != prev.block_id():
            raise EvidenceError(
                f"header at height {header.height} does not link to its predecessor"
            )
        if header.height != prev.height + 1:
            raise EvidenceError("header heights are not consecutive")
        if header.time_ticks < prev.time_ticks:
            raise EvidenceError("header timestamps decrease")
        if header.chain_id != prev.chain_id:
            raise EvidenceError("header chain ids differ within one segment")


class LightClient:
    """Tracks one chain's headers and answers SPV inclusion queries."""

    def __init__(self, params: ChainParams, genesis_header: BlockHeader) -> None:
        if genesis_header.height != 0:
            raise InvalidBlockError("light client must be anchored at genesis")
        self.params = params
        self.headers: list[BlockHeader] = [genesis_header]

    # -- syncing ------------------------------------------------------------

    @property
    def height(self) -> int:
        return self.headers[-1].height

    def accept_header(self, header: BlockHeader) -> None:
        """Append one header extending the current best chain."""
        verify_header_linkage([self.headers[-1], header])
        if header.chain_id != self.params.chain_id:
            raise EvidenceError("header belongs to a different chain")
        self.headers.append(header)

    def accept_headers(self, headers: list[BlockHeader]) -> int:
        """Append a run of headers; returns how many were new.

        Headers at or below the current height are checked for equality
        with the stored ones (a mismatch means the server is on a fork
        this client does not follow — rejected; real light clients would
        evaluate cumulative work, which single-miner simulations and the
        stable-header discipline make unnecessary here).
        """
        accepted = 0
        for header in headers:
            if header.height <= self.height:
                stored = self.headers[header.height]
                if stored.block_id() != header.block_id():
                    raise EvidenceError("header conflicts with stored chain")
                continue
            if header.height != self.height + 1:
                raise EvidenceError(
                    f"header gap: have {self.height}, got {header.height}"
                )
            self.accept_header(header)
            accepted += 1
        return accepted

    def sync_from(self, chain: Blockchain) -> int:
        """Pull all new main-chain headers from a full node."""
        start = self.height + 1
        if start > chain.height:
            return 0
        return self.accept_headers(chain.header_chain(start))

    # -- queries ------------------------------------------------------------

    def header_at(self, height: int) -> BlockHeader:
        if not 0 <= height <= self.height:
            raise EvidenceError(f"no header at height {height}")
        return self.headers[height]

    def depth_of_height(self, height: int) -> int:
        """Confirmations of the block at ``height`` (1 = tip; 0 for a
        height this client holds no header of, negative ones included)."""
        if not 0 <= height <= self.height:
            return 0
        return self.height - height + 1

    def verify_inclusion(
        self,
        message_id: bytes,
        proof: MerkleProof,
        height: int,
        min_depth: int | None = None,
    ) -> bool:
        """SPV check: is ``message_id`` included at ``height`` and stable?

        Verifies the Merkle proof against the stored header's root and
        that the block is buried under at least ``min_depth`` headers
        (default: the chain's confirmation depth).  Inclusion only: that
        the message *succeeded* takes its receipt proof as well, which
        is :class:`repro.core.evidence.LightClientValidator`'s question.
        """
        min_depth = self.params.confirmation_depth if min_depth is None else min_depth
        if not 0 <= height <= self.height or proof.leaf != message_id:
            return False
        if not proof.verify(self.header_at(height).merkle_root):
            return False
        return self.depth_of_height(height) >= min_depth
