"""Section 4.3's relay evidence: what a participant ships to the verifier.

The paper discusses full replication ("simple but impractical"), light
nodes, and its relay-contract proposal; this repo runs the relay only
(the anchor path).  This bench measures the relay's *evidence
footprint*: a header run from the stored anchor plus two Merkle proofs,
growing with the chain.
"""

from repro.core.evidence import build_publication_evidence
from repro.workloads.graphs import two_party_swap
from repro.workloads.scenarios import build_scenario


def test_relay_evidence_footprint(table_printer):
    """Evidence size grows with the distance from the stored anchor —
    the scalability consideration behind refreshing relay anchors."""
    graph = two_party_swap(chain_a="a", chain_b="b", timestamp=311)
    env = build_scenario(graph=graph, seed=311)
    env.warm_up(2)
    chain = env.chain("a")
    participant = env.participant("alice")
    deploy = participant.deploy_contract(
        "a",
        "HTLC",
        args=(env.participant("bob").address.raw, b"\x01" * 32, 10_000_000_000),
        value=10,
    )
    rows = []
    for extra_blocks in (0, 5, 20, 50):
        env.simulator.run_until_true(
            lambda: chain.message_depth(deploy.message_id()) >= 2 + extra_blocks,
            timeout=200.0,
        )
        anchor = chain.block_at_height(0).header
        evidence = build_publication_evidence(chain, deploy, anchor=anchor)
        from repro.chain.wire import canonical_encode

        size = len(canonical_encode(evidence.to_wire()))
        rows.append(
            [chain.height, len(evidence.headers), f"{size:,} B"]
        )
    table_printer(
        "Relay evidence footprint vs chain growth (genesis anchor)",
        ["chain height", "headers in evidence", "encoded size"],
        rows,
    )
    sizes = [int(r[2][:-2].replace(",", "")) for r in rows]
    assert sizes == sorted(sizes)
