#!/usr/bin/env python
"""Quickstart: the paper's Figure 4 swap, end to end with AC3WN.

Alice owns X coins on a Bitcoin-like chain and wants Bob's Y coins on an
Ethereum-like chain.  A third permissionless chain serves as the witness
network.  The example builds the whole world (three simulated chains with
miners), runs the four AC3WN phases, and prints what happened.

Run:  python examples/quickstart.py
"""

from repro.core import AC3WNDriver, run_ac3wn
from repro.workloads import build_scenario, two_party_swap


def main() -> None:
    # 1. Alice and Bob agree on the AC2T graph D = (V, E):
    #    alice -- X=250 on btc-sim --> bob
    #    bob  -- Y=400 on eth-sim --> alice
    graph = two_party_swap(
        chain_a="btc-sim",
        chain_b="eth-sim",
        amount_a=250,
        amount_b=400,
    )
    print("AC2T graph:")
    for edge in graph.edges:
        print(f"  {edge.source} -> {edge.recipient}: {edge.amount} on {edge.chain_id}")
    print(f"  Diam(D) = {graph.diameter()}, contracts N = {graph.num_contracts}")

    # 2. Build the world: btc-sim, eth-sim, and a witness chain, each with
    #    its own miner, plus funded participant wallets.
    env = build_scenario(graph=graph, witness_chain_id="witness", seed=2024)
    env.warm_up(blocks=3)
    before = {
        (name, chain): env.participant(name).balance_on(chain)
        for name in ("alice", "bob")
        for chain in ("btc-sim", "eth-sim")
    }

    # 3. Run the protocol: multisign ms(D), register SCw on the witness
    #    network, deploy both asset contracts in parallel, flip SCw to
    #    RDauth with publication evidence, and redeem both contracts —
    #    the rows of the driver's phase table.
    print(f"\nphase table:\n{AC3WNDriver.describe_phases()}")
    outcome = run_ac3wn(env, graph, witness_chain_id="witness")

    # 4. Report.
    print(f"\n{outcome.summary()}")
    print("phases (simulation seconds):")
    for name, ts in sorted(outcome.phase_times.items(), key=lambda kv: kv[1]):
        print(f"  {name:20s} t={ts:7.2f}")
    print("balance changes:")
    for (name, chain), old in sorted(before.items()):
        new = env.participant(name).balance_on(chain)
        print(f"  {name:6s} on {chain}: {old} -> {new}  ({new - old:+d})")
    print(f"total fees paid: {outcome.fees_paid}")

    assert outcome.decision == "commit" and outcome.is_atomic


if __name__ == "__main__":
    main()
