"""Nolan's two-party atomic swap (Section 1's walkthrough).

Nolan's protocol is the two-party special case of the single-leader
HTLC protocol: Alice (the leader) locks X bitcoins under ``h = H(s)``
with timelock ``t1``; Bob, having verified ``SC1``, locks Y ethers under
the same ``h`` with ``t2 < t1``; Alice redeems ``SC2`` revealing ``s``;
Bob uses ``s`` to redeem ``SC1`` before ``t1``.

The driver simply wraps :class:`~repro.core.herlihy.HerlihyDriver` with
a two-party validity check, because the wave machinery degenerates to
exactly Nolan's schedule for a two-vertex, two-edge graph: publish waves
(SC1, then SC2) and redemption in reverse (SC2, then SC1).
"""

from __future__ import annotations

from ..errors import GraphError
from .graph import SwapGraph
from .herlihy import HerlihyConfig, HerlihyDriver
from .protocol import SwapEnvironment, SwapOutcome


def validate_two_party(graph: SwapGraph) -> None:
    """Nolan's protocol handles exactly two participants and two edges."""
    if len(graph.participants) != 2:
        raise GraphError("Nolan's protocol is strictly two-party")
    if graph.num_contracts != 2:
        raise GraphError("Nolan's protocol needs exactly two sub-transactions")
    a, b = graph.participant_names()
    directions = {(e.source, e.recipient) for e in graph.edges}
    if directions != {(a, b), (b, a)}:
        raise GraphError("Nolan's protocol needs one edge in each direction")


class NolanDriver(HerlihyDriver):
    """Two-party HTLC swap: Herlihy's driver on a validated 2-cycle."""

    protocol_name = "nolan"

    def __init__(
        self,
        env: SwapEnvironment,
        graph: SwapGraph,
        config: HerlihyConfig | None = None,
        fee_budget=None,
        jitter_span: float | None = None,
    ) -> None:
        validate_two_party(graph)
        super().__init__(
            env,
            graph,
            config,
            fee_budget=fee_budget,
            jitter_span=jitter_span,
        )
        self.outcome.protocol = self.protocol_name


def run_nolan(env: SwapEnvironment, graph: SwapGraph, **config_kwargs) -> SwapOutcome:
    """Convenience wrapper: configure and run one Nolan execution."""
    config = HerlihyConfig(**config_kwargs)
    return NolanDriver(env, graph, config).run()
