"""AC2T graph generators: the workloads the evaluation sweeps over.

Generators produce :class:`~repro.core.graph.SwapGraph` instances with
controlled structure: the two-party swap of Figure 4, directed cycles and
paths (whose diameter drives Figure 10's x-axis), the cyclic and
disconnected supply-chain graphs of Figure 7, complete digraphs, and
seeded random graphs for property testing.
"""

from __future__ import annotations

from ..crypto.keys import KeyPair
from ..errors import GraphError
from ..sim.rng import RngStream
from ..core.graph import AssetEdge, SwapGraph

DEFAULT_AMOUNT = 100


def participant_pairs(names: list[str]) -> dict[str, KeyPair]:
    """Deterministic identities for a list of participant names (a graph
    built over them keeps the pairs for the world's participants)."""
    return {name: KeyPair.from_seed(f"participant/{name}") for name in names}


def _names(n: int) -> list[str]:
    if n < 1:
        raise GraphError("need at least one participant")
    return [f"p{i:02d}" for i in range(n)]


def two_party_swap(
    chain_a: str = "chain-a",
    chain_b: str = "chain-b",
    amount_a: int = DEFAULT_AMOUNT,
    amount_b: int = DEFAULT_AMOUNT,
    names: tuple[str, str] = ("alice", "bob"),
    timestamp: int = 0,
) -> SwapGraph:
    """Figure 4: Alice swaps X on one chain for Bob's Y on another."""
    alice, bob = names
    keys = participant_pairs([alice, bob])
    return SwapGraph.build(
        keys,
        [
            AssetEdge(alice, bob, chain_a, amount_a),
            AssetEdge(bob, alice, chain_b, amount_b),
        ],
        timestamp=timestamp,
    )


def directed_cycle(
    n: int,
    chain_ids: list[str] | None = None,
    amount: int = DEFAULT_AMOUNT,
    timestamp: int = 0,
) -> SwapGraph:
    """A ring p0 → p1 → … → p(n-1) → p0; ``Diam = n``.

    Rings are the canonical diameter-scaling workload for Figure 10: a
    ring of ``n`` participants has diameter exactly ``n``.
    """
    names = _names(n)
    keys = participant_pairs(names)
    edges = []
    for i, name in enumerate(names):
        nxt = names[(i + 1) % n]
        chain = chain_ids[i % len(chain_ids)] if chain_ids else f"chain-{i}"
        edges.append(AssetEdge(name, nxt, chain, amount))
    return SwapGraph.build(keys, edges, timestamp=timestamp)


def bidirectional_path(
    n: int,
    chain_ids: list[str] | None = None,
    amount: int = DEFAULT_AMOUNT,
    timestamp: int = 0,
) -> SwapGraph:
    """p0 ⇄ p1 ⇄ … ⇄ p(n-1): each adjacent pair swaps; ``Diam = max(n-1, 2)``."""
    if n < 2:
        raise GraphError("a path needs at least two participants")
    names = _names(n)
    keys = participant_pairs(names)
    edges = []
    for i in range(n - 1):
        chain_fwd = chain_ids[(2 * i) % len(chain_ids)] if chain_ids else f"chain-{2 * i}"
        chain_bwd = (
            chain_ids[(2 * i + 1) % len(chain_ids)] if chain_ids else f"chain-{2 * i + 1}"
        )
        edges.append(AssetEdge(names[i], names[i + 1], chain_fwd, amount))
        edges.append(AssetEdge(names[i + 1], names[i], chain_bwd, amount))
    return SwapGraph.build(keys, edges, timestamp=timestamp)


def figure7a_cyclic(
    chain_ids: list[str] | None = None,
    amount: int = DEFAULT_AMOUNT,
    timestamp: int = 0,
) -> SwapGraph:
    """Figure 7a: a cyclic graph that stays cyclic after removing any
    vertex — two overlapping directed triangles on four vertices.

    Herlihy's single-leader protocol cannot execute it; AC3WN can.
    """
    names = ["a", "b", "c", "d"]
    keys = participant_pairs(names)

    def chain(i: int) -> str:
        return chain_ids[i % len(chain_ids)] if chain_ids else f"chain-{i}"

    edges = [
        AssetEdge("a", "b", chain(0), amount),
        AssetEdge("b", "c", chain(1), amount),
        AssetEdge("c", "a", chain(2), amount),
        AssetEdge("b", "d", chain(3), amount),
        AssetEdge("d", "c", chain(4), amount),
        AssetEdge("c", "b", chain(5), amount),
    ]
    return SwapGraph.build(keys, edges, timestamp=timestamp)


def figure7b_disconnected(
    chain_ids: list[str] | None = None,
    amount: int = DEFAULT_AMOUNT,
    timestamp: int = 0,
) -> SwapGraph:
    """Figure 7b: two disjoint two-party swaps agreed as ONE AC2T.

    Supply-chain settlements batch unrelated transfers atomically; no
    path connects the components, so leader-based protocols fail while
    AC3WN commits or aborts the whole batch.
    """
    names = ["a", "b", "c", "d"]
    keys = participant_pairs(names)

    def chain(i: int) -> str:
        return chain_ids[i % len(chain_ids)] if chain_ids else f"chain-{i}"

    edges = [
        AssetEdge("a", "b", chain(0), amount),
        AssetEdge("b", "a", chain(1), amount),
        AssetEdge("c", "d", chain(2), amount),
        AssetEdge("d", "c", chain(3), amount),
    ]
    return SwapGraph.build(keys, edges, timestamp=timestamp)


def complete_digraph(
    n: int,
    chain_ids: list[str] | None = None,
    amount: int = DEFAULT_AMOUNT,
    timestamp: int = 0,
) -> SwapGraph:
    """Every ordered pair trades: ``n·(n-1)`` contracts, ``Diam = 2``."""
    names = _names(n)
    keys = participant_pairs(names)
    edges = []
    i = 0
    for src in names:
        for dst in names:
            if src == dst:
                continue
            chain = chain_ids[i % len(chain_ids)] if chain_ids else f"chain-{i}"
            edges.append(AssetEdge(src, dst, chain, amount))
            i += 1
    return SwapGraph.build(keys, edges, timestamp=timestamp)


def random_graph(
    n: int,
    edge_probability: float,
    rng: RngStream,
    chain_ids: list[str] | None = None,
    amount: int = DEFAULT_AMOUNT,
    timestamp: int = 0,
) -> SwapGraph:
    """A seeded Erdős–Rényi digraph (at least one edge guaranteed)."""
    names = _names(n)
    keys = participant_pairs(names)
    edges = []
    i = 0
    for src in names:
        for dst in names:
            if src == dst:
                continue
            if rng.random() < edge_probability:
                chain = chain_ids[i % len(chain_ids)] if chain_ids else f"chain-{i}"
                edges.append(AssetEdge(src, dst, chain, amount))
                i += 1
    if not edges:
        src, dst = names[0], names[-1] if n > 1 else None
        if dst is None:
            raise GraphError("cannot build a random graph on one participant")
        chain = chain_ids[0] if chain_ids else "chain-0"
        edges.append(AssetEdge(src, dst, chain, amount))
    return SwapGraph.build(keys, edges, timestamp=timestamp)


def ring_with_diameter(
    diameter: int,
    chain_ids: list[str] | None = None,
    amount: int = DEFAULT_AMOUNT,
    timestamp: int = 0,
) -> SwapGraph:
    """A graph whose ``Diam(D)`` equals ``diameter`` exactly (a ring).

    Figure 10 sweeps the diameter from 2 upward; a directed ring of
    ``diameter`` participants delivers each point of the sweep.
    """
    if diameter < 2:
        raise GraphError("the smallest AC2T graph has diameter 2")
    return directed_cycle(diameter, chain_ids=chain_ids, amount=amount, timestamp=timestamp)
