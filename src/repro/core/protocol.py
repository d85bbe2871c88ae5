"""Shared protocol machinery: environments, outcomes, atomicity audits.

Every commitment protocol in this library (Nolan, Herlihy, AC3TW, AC3WN)
runs against a :class:`SwapEnvironment` and produces a
:class:`SwapOutcome`.  The outcome records, per sub-transaction, the
final smart-contract state — which is what the paper's correctness
property quantifies over: *either all smart contracts in an AC2T are
redeemed or all of them are refunded*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chain.chain import Blockchain
from ..chain.mempool import Mempool
from ..errors import ProtocolError
from ..sim.simulator import Simulator
from .contract_template import SwapState
from .graph import AssetEdge, SwapGraph
from .participant import Participant


@dataclass
class SwapEnvironment:
    """Everything a protocol driver needs to execute an AC2T.

    Built by :mod:`repro.workloads.scenarios`; drivers only read it.
    """

    simulator: Simulator
    chains: dict[str, Blockchain]
    mempools: dict[str, Mempool]
    participants: dict[str, Participant]

    def chain(self, chain_id: str) -> Blockchain:
        if chain_id not in self.chains:
            raise ProtocolError(f"environment has no chain {chain_id!r}")
        return self.chains[chain_id]

    def participant(self, name: str) -> Participant:
        if name not in self.participants:
            raise ProtocolError(f"environment has no participant {name!r}")
        return self.participants[name]


def edge_key(edge: AssetEdge) -> str:
    """Stable display key for a sub-transaction."""
    return f"{edge.source}->{edge.recipient}@{edge.chain_id}"


@dataclass
class ContractRecord:
    """Tracking data for one sub-transaction's smart contract."""

    edge: AssetEdge
    contract_id: bytes = b""
    deploy_message_id: bytes = b""
    deployed_at: float | None = None
    confirmed_at: float | None = None
    settled_at: float | None = None
    final_state: str = "unpublished"


@dataclass
class SwapOutcome:
    """The result of running one AC2T under some protocol.

    Attributes:
        protocol: protocol name ("nolan", "herlihy", "ac3tw", "ac3wn").
        decision: "commit", "abort", or "undecided".
        contracts: per-edge tracking records.
        started_at / finished_at: simulation timestamps.
        phase_times: named protocol milestones (driver-specific).
        fees_paid: total fees spent across all chains by this AC2T.
        fee_cap: the swap's fee-budget cap, when one governed it.
        priced_out: the swap abandoned at least one message because its
            fee budget could not keep it in a congested mempool.
        evictions: times one of the swap's messages was evicted from a
            mempool (each triggers the bump-or-abort rebroadcast policy).
        fee_bumps: successful replace-by-fee rebroadcasts.
        injected_crash: participant crashed by the workload's failure
            injection (None when no crash was scheduled for this swap).
        coordinator_contract_id: id of the swap's coordinating contract
            (AC3WN's ``SCw``), used to attribute witness-chain attacks.
        attacked_by: adversary actor kinds that targeted this swap
            (stamped by :meth:`repro.adversary.AdversaryRoster.attribute`).
        attacks_launched: reorg attacks launched against this swap.
        reorgs_won / reorgs_lost: how those attacks resolved.
        attack_blocks: private blocks the attacker mined against this
            swap's decision.
        attack_cost: USD the attacker spent on those blocks (Section
            6.3's ``blocks x Ch / dh`` cost model).
        notes: free-form driver annotations (crash observations etc.).
    """

    protocol: str
    graph: SwapGraph
    decision: str = "undecided"
    contracts: dict[str, ContractRecord] = field(default_factory=dict)
    started_at: float = 0.0
    finished_at: float = 0.0
    phase_times: dict[str, float] = field(default_factory=dict)
    fees_paid: int = 0
    fee_cap: int | None = None
    priced_out: bool = False
    evictions: int = 0
    fee_bumps: int = 0
    injected_crash: str | None = None
    coordinator_contract_id: bytes = b""
    attacked_by: list[str] = field(default_factory=list)
    attacks_launched: int = 0
    reorgs_won: int = 0
    reorgs_lost: int = 0
    attack_blocks: int = 0
    attack_cost: float = 0.0
    notes: list[str] = field(default_factory=list)

    # -- atomicity ------------------------------------------------------------

    def final_states(self) -> dict[str, str]:
        return {key: rec.final_state for key, rec in self.contracts.items()}

    @property
    def any_redeemed(self) -> bool:
        return any(r.final_state == SwapState.REDEEMED for r in self.contracts.values())

    @property
    def any_refunded(self) -> bool:
        return any(r.final_state == SwapState.REFUNDED for r in self.contracts.values())

    @property
    def all_settled(self) -> bool:
        return all(
            r.final_state in (SwapState.REDEEMED, SwapState.REFUNDED)
            for r in self.contracts.values()
        )

    @property
    def is_atomic(self) -> bool:
        """The paper's all-or-nothing property over *settled* contracts.

        A mix of redeemed and refunded contracts in one AC2T is an
        atomicity violation.  Contracts still pending (published but not
        yet settled, e.g. a crashed recipient that has not redeemed yet)
        do not violate atomicity as long as the *decided* side is the
        only one that can ever settle them.
        """
        return not (self.any_redeemed and self.any_refunded)

    @property
    def latency(self) -> float:
        return self.finished_at - self.started_at

    def summary(self) -> str:
        """One-line human-readable result."""
        states = ", ".join(f"{k}:{v}" for k, v in sorted(self.final_states().items()))
        return (
            f"[{self.protocol}] decision={self.decision} atomic={self.is_atomic} "
            f"latency={self.latency:.2f}s states=({states})"
        )

