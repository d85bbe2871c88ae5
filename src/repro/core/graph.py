"""The AC2T transaction graph ``D = (V, E)`` (Section 3).

An atomic cross-chain transaction is modelled as a directed graph whose
vertexes are participants and whose edges are sub-transactions: an edge
``e = (u, v)`` transfers asset ``e.a`` from ``u`` to ``v`` on blockchain
``e.BC``.  All participants multisign ``(D, t)`` producing ``ms(D)``,
which the witness (Trent or the witness network) uses to identify and
verify the AC2T.

The graph-theoretic quantities the evaluation depends on are computed
here: ``Diam(D)`` (Section 6.1's latency driver), cyclicity and
connectivity (the Section 5.3 complex-graph cases of Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.keys import KeyPair, PublicKey
from ..crypto.signatures import Multisignature, multisign
from ..errors import GraphError
from ..chain.wire import canonical_encode, wire_hash

GRAPH_SIGNING_DOMAIN = "repro/ac2t-graph"


@dataclass(frozen=True)
class AssetEdge:
    """One sub-transaction: ``amount`` moves ``source`` → ``recipient`` on
    blockchain ``chain_id``."""

    source: str
    recipient: str
    chain_id: str
    amount: int

    def __post_init__(self) -> None:
        if self.amount <= 0:
            raise GraphError("edge amount must be positive")
        if self.source == self.recipient:
            raise GraphError("self-transfers are not sub-transactions")

    def to_wire(self):
        return {
            "source": self.source,
            "recipient": self.recipient,
            "chain_id": self.chain_id,
            "amount": self.amount,
        }


@dataclass(frozen=True)
class SwapGraph:
    """The immutable AC2T graph ``D`` plus its agreement timestamp ``t``.

    Attributes:
        participants: vertex name → public key, the identities that must
            multisign the graph.
        edges: the sub-transactions.
        timestamp: integer agreement time distinguishing otherwise
            identical AC2Ts among the same participants.
    """

    participants: tuple[tuple[str, PublicKey], ...]
    edges: tuple[AssetEdge, ...]
    timestamp: int = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        participants: dict[str, PublicKey],
        edges: list[AssetEdge],
        timestamp: int = 0,
    ) -> "SwapGraph":
        graph = cls(
            participants=tuple(sorted(participants.items())),
            edges=tuple(edges),
            timestamp=timestamp,
        )
        graph.validate()
        return graph

    def validate(self) -> None:
        """Structural validation: every edge endpoint must be a vertex."""
        if not self.edges:
            raise GraphError("an AC2T needs at least one sub-transaction")
        names = {name for name, _ in self.participants}
        if len(names) != len(self.participants):
            raise GraphError("duplicate participant names")
        for edge in self.edges:
            if edge.source not in names or edge.recipient not in names:
                raise GraphError(
                    f"edge {edge.source}->{edge.recipient} references an "
                    f"unknown participant"
                )
        if len(set(self.edges)) != len(self.edges):
            raise GraphError("duplicate edges in the AC2T graph")

    # -- identity ------------------------------------------------------------

    def participant_names(self) -> list[str]:
        return [name for name, _ in self.participants]

    def participant_keys(self) -> dict[str, PublicKey]:
        return dict(self.participants)

    def to_wire(self):
        return {
            "participants": [
                {"name": name, "key": key.to_bytes()} for name, key in self.participants
            ],
            "edges": list(self.edges),
            "timestamp": self.timestamp,
        }

    def payload(self) -> bytes:
        """Canonical bytes of ``(D, t)`` — what the participants sign."""
        return canonical_encode(self.to_wire())

    def digest(self) -> bytes:
        """The signing digest of ``(D, t)`` (same digest ``ms(D)`` carries)."""
        return wire_hash_from_payload(self.payload())

    # -- multisignature ms(D) ------------------------------------------------

    def multisign(self, keypairs: dict[str, KeyPair]) -> Multisignature:
        """Produce ``ms(D)``: every participant in ``keypairs`` signs ``(D, t)``.

        Signature order is irrelevant (the paper notes any order implies
        unanimous agreement).  A participant missing from ``keypairs``
        withholds its signature, and :meth:`verify_multisignature` then
        rejects the incomplete ``ms(D)``.
        """
        signers = [keypairs[name] for name, _ in self.participants if name in keypairs]
        return multisign(signers, GRAPH_SIGNING_DOMAIN, self.payload())

    def verify_multisignature(self, ms: Multisignature) -> bool:
        """Check ``ms`` carries a valid signature from *every* participant."""
        if ms.digest != wire_hash_from_payload(self.payload()):
            return False
        return ms.verify([key for _, key in self.participants])

    # -- graph-theoretic measures -----------------------------------------------

    def _adjacency(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {name: set() for name, _ in self.participants}
        for edge in self.edges:
            adj[edge.source].add(edge.recipient)
        return adj

    def _bfs_distances(self, start: str, adj: dict[str, set[str]]) -> dict[str, int]:
        """Shortest directed-path lengths from ``start`` to reachable nodes."""
        distances: dict[str, int] = {start: 0}
        frontier = [start]
        while frontier:
            nxt: list[str] = []
            for node in frontier:
                for succ in adj[node]:
                    if succ not in distances:
                        distances[succ] = distances[node] + 1
                        nxt.append(succ)
            frontier = nxt
        return distances

    def diameter(self) -> int:
        """``Diam(D)``: longest shortest directed path, closed walks included.

        The paper defines the diameter as "the length of the longest path
        from any vertex in D to any other vertex in D including itself",
        so for each vertex the shortest closed walk through it counts as
        its self-distance; the smallest two-party swap (A⇄B) has
        ``Diam = 2``, matching Figure 10's x-axis starting at 2.
        """
        adj = self._adjacency()
        best = 0
        names = [name for name, _ in self.participants]
        all_distances = {name: self._bfs_distances(name, adj) for name in names}
        for start in names:
            for target, dist in all_distances[start].items():
                if target != start:
                    best = max(best, dist)
            # Self-distance: the shortest closed walk through `start`,
            # i.e. an edge start->w plus the shortest path w->start.
            cycle_lengths = [
                all_distances[succ].get(start, None) for succ in adj[start]
            ]
            cycle_lengths = [1 + c for c in cycle_lengths if c is not None]
            if cycle_lengths:
                best = max(best, min(cycle_lengths))
        return best

    def is_cyclic(self) -> bool:
        """True iff the digraph contains a directed cycle."""
        adj = self._adjacency()
        colors: dict[str, int] = {}  # 0=white 1=grey 2=black

        def visit(node: str) -> bool:
            colors[node] = 1
            for succ in adj[node]:
                state = colors.get(succ, 0)
                if state == 1:
                    return True
                if state == 0 and visit(succ):
                    return True
            colors[node] = 2
            return False

        return any(colors.get(name, 0) == 0 and visit(name) for name, _ in self.participants)

    def is_connected(self) -> bool:
        """Weak connectivity: is the underlying undirected graph connected?"""
        undirected: dict[str, set[str]] = {name: set() for name, _ in self.participants}
        for edge in self.edges:
            undirected[edge.source].add(edge.recipient)
            undirected[edge.recipient].add(edge.source)
        names = [name for name, _ in self.participants]
        seen = {names[0]}
        stack = [names[0]]
        while stack:
            node = stack.pop()
            for neighbor in undirected[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return len(seen) == len(names)

    def chains_used(self) -> set[str]:
        return {edge.chain_id for edge in self.edges}

    def edges_to(self, name: str) -> list[AssetEdge]:
        return [edge for edge in self.edges if edge.recipient == name]

    @property
    def num_contracts(self) -> int:
        """``N = |E|``: one smart contract per edge (Section 6.2)."""
        return len(self.edges)


def wire_hash_from_payload(payload: bytes) -> bytes:
    """The digest participants sign for a given canonical graph payload."""
    from ..crypto.hashing import tagged_hash

    return tagged_hash(GRAPH_SIGNING_DOMAIN, payload)
