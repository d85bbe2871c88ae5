"""repro — a reproduction of "Atomic Commitment Across Blockchains"
(Zakhary, Agrawal, El Abbadi; VLDB 2020).

The package implements the paper's AC3WN protocol (atomic cross-chain
commitment with a permissionless witness network), the AC3TW centralized
variant, and the Nolan/Herlihy HTLC baselines, on top of a from-scratch
substrate: deterministic discrete-event simulation, UTXO blockchains
with proof-of-work and forks, a smart-contract runtime, and pure-Python
secp256k1.

Importing ``repro`` loads nothing else: each subpackage is imported
where it is used, so ``repro store list`` never pays for the engine.

Quickstart::

    from repro.core import run_ac3wn
    from repro.workloads import build_scenario, two_party_swap

    graph = two_party_swap(chain_a="bitcoin-sim", chain_b="ethereum-sim")
    env = build_scenario(graph=graph, witness_chain_id="witness")
    env.warm_up()
    outcome = run_ac3wn(env, graph, witness_chain_id="witness")
    assert outcome.decision == "commit" and outcome.is_atomic
"""

__version__ = "1.0.0"
