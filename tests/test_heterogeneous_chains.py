"""Swaps across chains with different speeds and depths.

Real AC2Ts span chains with very different block intervals and
confirmation requirements (Bitcoin's 10-minute/depth-6 vs Ethereum's
15-second/depth-12).  Δ is governed by the *slowest* chain; these tests
run scaled-down heterogeneous versions and check both protocols cope.
"""

import pytest

from repro.chain.params import fast_chain
from repro.core.ac3tw import AC3TWDriver, TrustedWitness
from repro.core.ac3wn import run_ac3wn
from repro.core.herlihy import run_herlihy
from repro.core.nolan import run_nolan
from repro.workloads.graphs import directed_cycle, two_party_swap
from repro.workloads.scenarios import build_scenario


def heterogeneous_env(timestamp, seed, witness_interval=0.5):
    """btc-ish: slow blocks, shallow depth; eth-ish: fast blocks, deep."""
    graph = two_party_swap(chain_a="slowchain", chain_b="fastchain", timestamp=timestamp)
    chain_params = {
        "slowchain": fast_chain("slowchain", block_interval=3.0, confirmation_depth=2),
        "fastchain": fast_chain("fastchain", block_interval=0.5, confirmation_depth=6),
        "witness": fast_chain("witness", block_interval=witness_interval, confirmation_depth=3),
    }
    env = build_scenario(graph=graph, seed=seed, chain_params=chain_params)
    env.warm_up(2)
    return env, graph


class TestAC3WNHeterogeneous:
    def test_commit_across_speeds(self):
        env, graph = heterogeneous_env(timestamp=1, seed=401)
        outcome = run_ac3wn(env, graph, witness_chain_id="witness")
        assert outcome.decision == "commit"
        assert outcome.is_atomic

    def test_delta_governed_by_slowest(self):
        """Latency is a small multiple of the slow chain's Δ = 6 s."""
        env, graph = heterogeneous_env(timestamp=2, seed=402)
        outcome = run_ac3wn(env, graph, witness_chain_id="witness")
        slow_delta = 3.0 * 2  # interval × depth
        assert outcome.latency <= 4.0 * slow_delta

    def test_fast_witness_speeds_up_coordination(self):
        """A faster witness chain reduces the coordination share of the
        latency (phases 1 and 3)."""
        env_fast, graph_fast = heterogeneous_env(timestamp=3, seed=403, witness_interval=0.25)
        fast = run_ac3wn(env_fast, graph_fast, witness_chain_id="witness")
        env_slow, graph_slow = heterogeneous_env(timestamp=4, seed=404, witness_interval=3.0)
        slow = run_ac3wn(env_slow, graph_slow, witness_chain_id="witness")
        assert fast.decision == slow.decision == "commit"
        assert fast.latency < slow.latency

    def test_abort_across_speeds(self):
        env, graph = heterogeneous_env(timestamp=5, seed=405)
        outcome = run_ac3wn(
            env, graph, witness_chain_id="witness", decliners=frozenset({"bob"})
        )
        assert outcome.decision == "abort"
        assert outcome.is_atomic


class TestBaselinesHeterogeneous:
    def test_nolan_commit_across_speeds(self):
        env, graph = heterogeneous_env(timestamp=6, seed=406)
        outcome = run_nolan(env, graph)
        assert outcome.decision == "commit"
        assert outcome.is_atomic

    def test_herlihy_ring_mixed_chains(self):
        graph = directed_cycle(3, chain_ids=["m0", "m1", "m2"], timestamp=7)
        chain_params = {
            "m0": fast_chain("m0", block_interval=0.5, confirmation_depth=2),
            "m1": fast_chain("m1", block_interval=1.0, confirmation_depth=2),
            "m2": fast_chain("m2", block_interval=2.0, confirmation_depth=2),
        }
        env = build_scenario(graph=graph, seed=407, chain_params=chain_params)
        env.warm_up(2)
        outcome = run_herlihy(env, graph)
        assert outcome.decision == "commit"
        assert outcome.is_atomic


class TestAC3TWHeterogeneous:
    def test_ring_commit(self):
        graph = directed_cycle(3, chain_ids=["h0", "h1", "h2"], timestamp=8)
        chain_params = {
            "h0": fast_chain("h0", block_interval=0.5, confirmation_depth=2),
            "h1": fast_chain("h1", block_interval=1.5, confirmation_depth=3),
            "h2": fast_chain("h2", block_interval=1.0, confirmation_depth=2),
        }
        env = build_scenario(graph=graph, seed=408, chain_params=chain_params)
        env.warm_up(2)
        trent = TrustedWitness(env.chains)
        outcome = AC3TWDriver(env, graph, trent).run()
        assert outcome.decision == "commit"
        assert outcome.is_atomic

    def test_figure7a_with_trent(self):
        """AC3TW also handles complex graphs — the witness pattern, not
        decentralization, is what lifts the graph restriction."""
        from repro.workloads.graphs import figure7a_cyclic

        graph = figure7a_cyclic(timestamp=9)
        env = build_scenario(graph=graph, seed=409)
        env.warm_up(2)
        trent = TrustedWitness(env.chains)
        outcome = AC3TWDriver(env, graph, trent).run()
        assert outcome.decision == "commit"
        assert outcome.is_atomic
